//! The streaming trace layer driven end to end through the engine:
//! binary traces must produce counters byte-identical to text replay
//! of the same trace, on the single-core engine and across
//! `--sim-threads` on the multi-core one, with the reader's resident
//! memory pinned to the chunk size the whole way.

use hyvec_cachesim::config::{L2Config, MemoryConfig, Mode, SystemConfig, Topology};
use hyvec_cachesim::engine::System;
use hyvec_cachesim::MultiCoreSystem;
use hyvec_mediabench::binfmt::{encode_entries, BinaryReplay, DEFAULT_CHUNK_ENTRIES};
use hyvec_mediabench::replay::{parse_trace_line, write_entry_line, write_trace};
use hyvec_mediabench::zoo::Workload;
use hyvec_mediabench::{per_core_seed, Benchmark, Replay, TraceEntry};

fn build_system() -> System {
    let l1s = SystemConfig::uniform_6t();
    System::builder()
        .il1(l1s.il1)
        .dl1(l1s.dl1)
        .l2(L2Config::unified(16))
        .memory(MemoryConfig::with_latency(80))
        .build()
        .expect("valid configuration")
}

/// Routes every generated entry through the text format — entry →
/// line → parse — without materializing the trace: the O(1)-memory
/// "text replay" reference for the large-scale equivalence tests.
fn text_round_trip(entries: impl Iterator<Item = TraceEntry>) -> impl Iterator<Item = TraceEntry> {
    entries.enumerate().map(|(i, e)| {
        let mut line = String::new();
        write_entry_line(&mut line, e);
        parse_trace_line(i + 1, &line)
            .expect("the writer emits parseable lines")
            .expect("one entry per line")
    })
}

#[test]
fn system_run_counters_match_text_replay() {
    // The debug-sized slice of the acceptance contract: same trace
    // through eager text replay and streamed binary replay gives the
    // same RunReport, for a MediaBench program and a zoo workload.
    let traces: [Vec<TraceEntry>; 2] = [
        Benchmark::Mpeg2C.trace(150_000, 11).collect(),
        Workload::Zipf.trace(150_000, 11).collect(),
    ];
    for entries in traces {
        let text = write_trace(entries.iter().copied());
        let from_text = build_system().run(Replay::from_text(&text).unwrap(), Mode::Hp);

        let (bytes, _) = encode_entries(entries.iter().copied(), DEFAULT_CHUNK_ENTRIES);
        let mut reader = BinaryReplay::from_bytes(bytes).unwrap();
        let from_binary = build_system().run(&mut reader, Mode::Hp);
        assert!(
            reader.error().is_none(),
            "decode error: {:?}",
            reader.error()
        );
        assert!(reader.peak_resident_entries() <= DEFAULT_CHUNK_ENTRIES);
        assert_eq!(from_text, from_binary, "binary replay diverged from text");
    }
}

#[test]
fn epoch_merge_is_bit_identical_from_binary_streams() {
    // The multi-core engine fed from binary streams, its L1 fronts
    // inline on one thread vs split across 2 or 8: same merge contract
    // as the synthetic sources, now across decode chunk boundaries too.
    let cores = 4;
    let binary_sources = || -> Vec<_> {
        (0..cores)
            .map(|core| {
                let b = Benchmark::BIG[core % Benchmark::BIG.len()];
                // Deliberately unequal lengths so cores drain in
                // different epochs, and a small chunk size so chunk
                // boundaries land mid-epoch.
                let n = 5_000 + 997 * core as u64;
                let (bytes, _) = encode_entries(b.trace(n, per_core_seed(3, core)), 256);
                BinaryReplay::from_bytes(bytes).unwrap()
            })
            .collect()
    };
    let build = || -> MultiCoreSystem {
        let l1s = SystemConfig::uniform_6t();
        System::builder()
            .il1(l1s.il1)
            .dl1(l1s.dl1)
            .l2(L2Config::unified(16))
            .memory(MemoryConfig::with_latency(40))
            .topology(Topology::SharedL2)
            .build_multi(cores)
            .expect("valid configuration")
    };

    let mut inline = build();
    inline.set_sim_threads(1);
    let reference = inline.run(binary_sources(), Mode::Hp);

    for threads in [2, 8] {
        let mut parallel = build();
        parallel.set_sim_threads(threads);
        let threaded = parallel.run(binary_sources(), Mode::Hp);
        assert_eq!(
            reference, threaded,
            "sim-threads {threads} diverged from 1 on binary streams"
        );
    }

    // And binary streams agree with the generators they encode.
    let generator_sources: Vec<_> = (0..cores)
        .map(|core| {
            let b = Benchmark::BIG[core % Benchmark::BIG.len()];
            b.trace(5_000 + 997 * core as u64, per_core_seed(3, core))
        })
        .collect();
    let mut direct = build();
    direct.set_sim_threads(1);
    assert_eq!(
        reference,
        direct.run(generator_sources, Mode::Hp),
        "binary streams diverged from their generators"
    );
}

#[test]
fn truncated_stream_ends_the_run_with_a_typed_error() {
    // A truncated trace must not feed the engine garbage: the run
    // consumes the clean whole-chunk prefix and the reader reports
    // the truncation afterwards.
    let entries: Vec<TraceEntry> = Benchmark::GsmD.trace(10_000, 5).collect();
    let (bytes, _) = encode_entries(entries.iter().copied(), 512);
    let cut = bytes.len() - 100;
    let mut reader = BinaryReplay::from_bytes(bytes[..cut].to_vec()).unwrap();
    let report = build_system().run(&mut reader, Mode::Hp);
    assert!(reader.error().is_some(), "truncation went undetected");
    assert_eq!(report.stats.instructions % 512, 0);
    assert!(report.stats.instructions < 10_000);
}

/// The acceptance-scale run: a 10M+ entry binary trace through
/// `System::run`, peak resident trace memory bounded by the chunk
/// size, counters byte-identical to a text replay of the same trace
/// (both sides streamed in O(1) memory). Ignored in debug builds —
/// CI runs it in release via `--ignored`.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn ten_million_entry_binary_replay_matches_text() {
    const N: u64 = 10_000_000;
    let trace = || Benchmark::Mpeg2D.trace(N, 42);

    let from_text = build_system().run(text_round_trip(trace()), Mode::Hp);
    assert_eq!(from_text.stats.instructions, N);

    let (bytes, stats) = encode_entries(trace(), DEFAULT_CHUNK_ENTRIES);
    assert_eq!(stats.entries, N);
    let mut reader = BinaryReplay::from_bytes(bytes).unwrap();
    let from_binary = build_system().run(&mut reader, Mode::Hp);
    assert!(
        reader.error().is_none(),
        "decode error: {:?}",
        reader.error()
    );
    assert_eq!(reader.entries_read(), N);
    assert!(
        reader.peak_resident_entries() <= DEFAULT_CHUNK_ENTRIES,
        "peak resident {} entries exceeds the {} chunk bound",
        reader.peak_resident_entries(),
        DEFAULT_CHUNK_ENTRIES
    );
    assert_eq!(from_text, from_binary, "10M-entry binary replay diverged");
}
