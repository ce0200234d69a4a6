//! `hyvec trace` — generate, transcode, inspect, and replay trace
//! files from the command line.
//!
//! ```text
//! hyvec trace gen <workload> <out.txt> [--instructions N] [--seed S]
//! hyvec trace encode <in.txt> <out.bin> [--chunk-entries N]
//! hyvec trace decode <in.bin> <out.txt>
//! hyvec trace info <in.bin>
//! hyvec trace replay <in.txt|in.bin> [--mode hp|ule]
//! ```
//!
//! `gen` accepts any MediaBench program (`mpeg2_d`, `adpcm_c`, ...)
//! or zoo workload (`zipf`, `ptrchase`, `stencil`, `webburst`) and
//! writes the text format. `encode`/`decode` transcode between the
//! text and binary formats streaming — constant memory in the trace
//! length on the binary side. `info` validates a binary trace and
//! prints its shape. `replay` runs a trace file through the standard
//! single-core machine (hybrid L1, 16KB L2, latency-80 memory) and
//! prints the deterministic counters; the container format is sniffed
//! from the file's magic, so the output is byte-identical for a text
//! trace and its binary encoding — the property CI `cmp`-gates.

use std::fs::File;
use std::io::{BufWriter, Write};

use hyvec_cachesim::config::{L2Config, MemoryConfig, Mode, SystemConfig};
use hyvec_cachesim::engine::{RunReport, System};
use hyvec_mediabench::binfmt::{
    summarize, BinaryReplay, TraceWriter, DEFAULT_CHUNK_ENTRIES, MAGIC,
};
use hyvec_mediabench::replay::{parse_trace_line, write_entry_line, Replay};
use hyvec_mediabench::zoo::Workload;
use hyvec_mediabench::{Benchmark, TraceEntry};

/// One-line usage, shown by `hyvec` on a bad `trace` invocation.
pub const TRACE_USAGE: &str = "trace <gen|encode|decode|info|replay> <args> \
     (gen <workload> <out.txt> [--instructions N] [--seed S]; \
     encode <in.txt> <out.bin> [--chunk-entries N]; \
     decode <in.bin> <out.txt>; info <in.bin>; \
     replay <in.txt|in.bin> [--mode hp|ule])";

/// Runs the `trace` subcommand. The output (file contents and the
/// stdout of `info`/`replay`) is fully determined by the arguments.
///
/// # Errors
///
/// Returns a human-readable message on bad arguments, unreadable or
/// malformed inputs, or write failures.
pub fn run(args: impl Iterator<Item = String>) -> Result<(), String> {
    let args: Vec<String> = args.collect();
    let (sub, rest) = args
        .split_first()
        .ok_or_else(|| "trace: missing subcommand".to_string())?;
    match sub.as_str() {
        "gen" => gen(rest),
        "encode" => encode(rest),
        "decode" => decode(rest),
        "info" => info(rest),
        "replay" => replay(rest),
        other => Err(format!("trace: unknown subcommand {other:?}")),
    }
}

/// Positional arguments plus `--flag value` pairs, borrowed from argv.
type SplitArgs<'a> = (Vec<&'a str>, Vec<(&'a str, &'a str)>);

/// Splits `rest` into positional arguments and `--flag value` pairs.
fn split_args(rest: &[String]) -> Result<SplitArgs<'_>, String> {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            let value = it
                .next()
                .ok_or_else(|| format!("trace: flag --{name} needs a value"))?;
            flags.push((name, value.as_str()));
        } else {
            positional.push(a.as_str());
        }
    }
    Ok((positional, flags))
}

fn parse_u64(name: &str, value: &str) -> Result<u64, String> {
    value
        .parse()
        .map_err(|e| format!("trace: bad --{name} {value:?}: {e}"))
}

/// Resolves a workload name against both generator families.
fn source_for(
    name: &str,
    instructions: u64,
    seed: u64,
) -> Option<Box<dyn Iterator<Item = TraceEntry>>> {
    if let Some(w) = Workload::from_name(name) {
        return Some(Box::new(w.trace(instructions, seed)));
    }
    Benchmark::ALL
        .into_iter()
        .find(|b| b.name() == name)
        .map(|b| Box::new(b.trace(instructions, seed)) as Box<dyn Iterator<Item = TraceEntry>>)
}

fn gen(rest: &[String]) -> Result<(), String> {
    let (pos, flags) = split_args(rest)?;
    let [name, out_path] = pos.as_slice() else {
        return Err("trace gen: want <workload> <out.txt>".to_string());
    };
    let mut instructions = 100_000u64;
    let mut seed = 1u64;
    for (flag, value) in flags {
        match flag {
            "instructions" => instructions = parse_u64(flag, value)?,
            "seed" => seed = parse_u64(flag, value)?,
            other => return Err(format!("trace gen: unknown flag --{other}")),
        }
    }
    let entries = source_for(name, instructions, seed).ok_or_else(|| {
        let zoo: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        let media: Vec<&str> = Benchmark::ALL.iter().map(|b| b.name()).collect();
        format!(
            "trace gen: unknown workload {name:?} (zoo: {}; mediabench: {})",
            zoo.join(", "),
            media.join(", ")
        )
    })?;
    let mut out = BufWriter::new(open_out(out_path)?);
    let mut line = String::new();
    let mut count = 0u64;
    for e in entries {
        line.clear();
        write_entry_line(&mut line, e);
        out.write_all(line.as_bytes())
            .map_err(|e| format!("trace gen: write {out_path}: {e}"))?;
        count += 1;
    }
    out.flush()
        .map_err(|e| format!("trace gen: write {out_path}: {e}"))?;
    eprintln!("wrote {count} entries to {out_path}");
    Ok(())
}

fn encode(rest: &[String]) -> Result<(), String> {
    let (pos, flags) = split_args(rest)?;
    let [in_path, out_path] = pos.as_slice() else {
        return Err("trace encode: want <in.txt> <out.bin>".to_string());
    };
    let mut chunk_entries = DEFAULT_CHUNK_ENTRIES;
    for (flag, value) in flags {
        match flag {
            "chunk-entries" => chunk_entries = parse_u64(flag, value)? as usize,
            other => return Err(format!("trace encode: unknown flag --{other}")),
        }
    }
    let text = std::fs::read_to_string(in_path)
        .map_err(|e| format!("trace encode: read {in_path}: {e}"))?;
    let mut writer =
        TraceWriter::with_chunk_entries(BufWriter::new(open_out(out_path)?), chunk_entries);
    for (i, raw) in text.lines().enumerate() {
        if let Some(entry) =
            parse_trace_line(i + 1, raw).map_err(|e| format!("trace encode: {in_path}: {e}"))?
        {
            writer
                .push(entry)
                .map_err(|e| format!("trace encode: write {out_path}: {e}"))?;
        }
    }
    let (_, stats) = writer
        .finish()
        .map_err(|e| format!("trace encode: write {out_path}: {e}"))?;
    eprintln!(
        "encoded {} entries into {} chunks, {} bytes, to {out_path}",
        stats.entries, stats.chunks, stats.bytes
    );
    Ok(())
}

fn decode(rest: &[String]) -> Result<(), String> {
    let (pos, flags) = split_args(rest)?;
    let [in_path, out_path] = pos.as_slice() else {
        return Err("trace decode: want <in.bin> <out.txt>".to_string());
    };
    if let Some((flag, _)) = flags.first() {
        return Err(format!("trace decode: unknown flag --{flag}"));
    }
    let mut reader =
        BinaryReplay::from_file(in_path).map_err(|e| format!("trace decode: {in_path}: {e}"))?;
    let mut out = BufWriter::new(open_out(out_path)?);
    let mut line = String::new();
    for e in reader.by_ref() {
        line.clear();
        write_entry_line(&mut line, e);
        out.write_all(line.as_bytes())
            .map_err(|e| format!("trace decode: write {out_path}: {e}"))?;
    }
    if let Some(e) = reader.take_error() {
        return Err(format!("trace decode: {in_path}: {e}"));
    }
    out.flush()
        .map_err(|e| format!("trace decode: write {out_path}: {e}"))?;
    eprintln!("decoded {} entries to {out_path}", reader.entries_read());
    Ok(())
}

fn info(rest: &[String]) -> Result<(), String> {
    let (pos, flags) = split_args(rest)?;
    let [in_path] = pos.as_slice() else {
        return Err("trace info: want <in.bin>".to_string());
    };
    if let Some((flag, _)) = flags.first() {
        return Err(format!("trace info: unknown flag --{flag}"));
    }
    let file = File::open(in_path).map_err(|e| format!("trace info: open {in_path}: {e}"))?;
    let s = summarize(std::io::BufReader::new(file))
        .map_err(|e| format!("trace info: {in_path}: {e}"))?;
    println!("format version: {}", s.version);
    println!("entries: {}", s.entries);
    println!("chunks: {}", s.chunks);
    println!("bytes: {}", s.bytes);
    println!("max chunk entries: {}", s.max_chunk_entries);
    if s.entries > 0 {
        println!("bytes/entry: {:.3}", s.bytes as f64 / s.entries as f64);
    }
    Ok(())
}

fn replay(rest: &[String]) -> Result<(), String> {
    let (pos, flags) = split_args(rest)?;
    let [in_path] = pos.as_slice() else {
        return Err("trace replay: want <in.txt|in.bin>".to_string());
    };
    let mut mode = Mode::Hp;
    for (flag, value) in flags {
        match (flag, value) {
            ("mode", "hp") => mode = Mode::Hp,
            ("mode", "ule") => mode = Mode::Ule,
            ("mode", other) => return Err(format!("trace replay: bad --mode {other:?}")),
            (other, _) => return Err(format!("trace replay: unknown flag --{other}")),
        }
    }
    let mut system = build_standard_machine()?;
    let report = if is_binary(in_path)? {
        let mut reader = BinaryReplay::from_file(in_path)
            .map_err(|e| format!("trace replay: {in_path}: {e}"))?;
        let report = system.run(&mut reader, mode);
        if let Some(e) = reader.take_error() {
            return Err(format!("trace replay: {in_path}: {e}"));
        }
        report
    } else {
        let replay =
            Replay::from_file(in_path).map_err(|e| format!("trace replay: {in_path}: {e}"))?;
        system.run(replay, mode)
    };
    print!("{}", render_report(&report));
    Ok(())
}

/// Whether the file opens with the binary trace magic.
fn is_binary(path: &str) -> Result<bool, String> {
    use std::io::Read;
    let mut file = File::open(path).map_err(|e| format!("trace replay: open {path}: {e}"))?;
    let mut magic = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match file.read(&mut magic[got..]) {
            Ok(0) => return Ok(false),
            Ok(n) => got += n,
            Err(e) => return Err(format!("trace replay: read {path}: {e}")),
        }
    }
    Ok(magic == MAGIC)
}

/// The standard single-core replay machine: hybrid L1 geometry, a
/// 16KB unified L2, latency-80 memory.
fn build_standard_machine() -> Result<System, String> {
    let l1s = SystemConfig::uniform_6t();
    System::builder()
        .il1(l1s.il1)
        .dl1(l1s.dl1)
        .l2(L2Config::unified(16))
        .memory(MemoryConfig::with_latency(80))
        .build()
        .map_err(|e| format!("trace replay: {e}"))
}

/// The deterministic counter dump CI `cmp`-gates between a text trace
/// and its binary encoding: pure counters and derived ratios, no wall
/// times.
fn render_report(r: &RunReport) -> String {
    let mut out = String::new();
    out.push_str(&format!("mode: {:?}\n", r.mode));
    out.push_str(&format!("instructions: {}\n", r.stats.instructions));
    out.push_str(&format!("cycles: {}\n", r.stats.cycles));
    out.push_str(&format!(
        "cpi: {:.6}\n",
        r.stats.cycles as f64 / r.stats.instructions.max(1) as f64
    ));
    out.push_str(&format!("epi_pj: {:.6}\n", r.epi_pj()));
    for (name, c) in [("il1", &r.stats.il1), ("dl1", &r.stats.dl1)] {
        out.push_str(&format!(
            "{name}: accesses {} hits {} misses {} writebacks {}\n",
            c.accesses, c.hits, c.misses, c.writebacks
        ));
    }
    if let Some(l2) = &r.stats.l2 {
        out.push_str(&format!(
            "l2: accesses {} hits {} misses {} writebacks {}\n",
            l2.accesses, l2.hits, l2.misses, l2.writebacks
        ));
    }
    out.push_str(&format!("memory_accesses: {}\n", r.stats.memory_accesses));
    out.push_str(&format!(
        "stalls: il1 {} dl1 {} edc {}\n",
        r.stats.il1_stall_cycles, r.stats.dl1_stall_cycles, r.stats.edc_stall_cycles
    ));
    out
}

fn open_out(path: &str) -> Result<File, String> {
    File::create(path).map_err(|e| format!("trace: create {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("hyvec-tracecmd-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    fn run_args(args: &[&str]) -> Result<(), String> {
        run(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn gen_encode_decode_round_trip_is_byte_exact() {
        let txt = tmp("rt.txt");
        let bin = tmp("rt.bin");
        let back = tmp("rt_back.txt");
        run_args(&["gen", "zipf", &txt, "--instructions", "5000", "--seed", "3"]).unwrap();
        run_args(&["encode", &txt, &bin, "--chunk-entries", "512"]).unwrap();
        run_args(&["decode", &bin, &back]).unwrap();
        let original = std::fs::read(&txt).unwrap();
        let round_tripped = std::fs::read(&back).unwrap();
        assert_eq!(original, round_tripped, "text -> binary -> text diverged");
        assert!(std::fs::read(&bin).unwrap().len() < original.len());
        run_args(&["info", &bin]).unwrap();
    }

    #[test]
    fn gen_accepts_both_generator_families() {
        let txt = tmp("fam.txt");
        run_args(&["gen", "mpeg2_d", &txt, "--instructions", "100"]).unwrap();
        run_args(&["gen", "ptrchase", &txt, "--instructions", "100"]).unwrap();
        let err = run_args(&["gen", "nope", &txt]).unwrap_err();
        assert!(err.contains("unknown workload"));
        assert!(err.contains("zipf"), "error should list valid names: {err}");
    }

    #[test]
    fn replay_sniffs_the_container_format() {
        let txt = tmp("replay.txt");
        let bin = tmp("replay.bin");
        run_args(&["gen", "gsm_c", &txt, "--instructions", "3000"]).unwrap();
        run_args(&["encode", &txt, &bin]).unwrap();
        assert!(!is_binary(&txt).unwrap());
        assert!(is_binary(&bin).unwrap());
        run_args(&["replay", &txt]).unwrap();
        run_args(&["replay", &bin, "--mode", "ule"]).unwrap();
    }

    #[test]
    fn errors_are_typed_and_named() {
        assert!(run_args(&[]).unwrap_err().contains("missing subcommand"));
        assert!(run_args(&["bogus"]).unwrap_err().contains("bogus"));
        assert!(run_args(&["gen", "zipf"]).unwrap_err().contains("want"));
        assert!(run_args(&["info", "/nonexistent.bin"])
            .unwrap_err()
            .contains("nonexistent"));
        let txt = tmp("errs.txt");
        std::fs::write(&txt, "1000\nnot-hex\n").unwrap();
        let bin = tmp("errs.bin");
        let err = run_args(&["encode", &txt, &bin]).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("not-hex"), "{err}");
        // info on a text file reports bad magic, not garbage.
        let err = run_args(&["info", &txt]).unwrap_err();
        assert!(err.contains("magic"), "{err}");
    }

    #[test]
    fn replay_counters_match_between_text_and_binary() {
        let txt = tmp("eq.txt");
        let bin = tmp("eq.bin");
        run_args(&["gen", "webburst", &txt, "--instructions", "8000"]).unwrap();
        run_args(&["encode", &txt, &bin]).unwrap();
        let mut sys_a = build_standard_machine().unwrap();
        let a = sys_a.run(Replay::from_file(&txt).unwrap(), Mode::Hp);
        let mut reader = BinaryReplay::from_file(&bin).unwrap();
        let mut sys_b = build_standard_machine().unwrap();
        let b = sys_b.run(&mut reader, Mode::Hp);
        assert!(reader.error().is_none());
        assert_eq!(render_report(&a), render_report(&b));
    }
}
