//! Runs every workload in smoke mode, untraced and traced, and checks
//! that each passes its correctness gates and reports exactly the
//! metrics `BENCHMARK.json` declares.
//!
//! ```text
//! cargo test --release --offline --manifest-path benches/Cargo.toml
//! ```

use std::collections::BTreeSet;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["runall", "replay_hp", "replay_ule_faulty", "serve_mix"];

/// The metric names of one `end_to_end` or `per_layer` array of
/// `BENCHMARK.json`.
fn declared(section: &str) -> BTreeSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section is present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name is a string")].to_string())
        .collect()
}

/// The metric names in a result line's `metrics` object.
fn reported(result: &str) -> BTreeSet<String> {
    let metrics = &result[result.find("\"metrics\"").expect("metrics are present")..];
    metrics
        .split("\": {\"value\"")
        .filter_map(|s| s.rsplit('"').next())
        .filter(|s| !s.is_empty() && !s.contains('}'))
        .map(str::to_string)
        .collect()
}

#[test]
fn every_workload_passes_in_smoke_mode_with_the_declared_metrics() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let expected = declared(section);
        assert!(!expected.is_empty());
        for workload in WORKLOADS {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args(["--workload", workload, "--seed", "5", "--seconds", "0.2"])
                .args(["--trace", trace, "--smoke"])
                .output()
                .expect("the benchmark runs");
            assert!(out.status.success(), "{workload} trace {trace} failed");
            let stdout = String::from_utf8(out.stdout).expect("output is UTF-8");
            let result = stdout.lines().last().expect("a result line");
            assert!(
                result.starts_with("{\"correct\": true, ") && result.contains("\"failed\": 0,"),
                "{workload} trace {trace}: {result}"
            );
            assert_eq!(reported(result), expected, "{workload} trace {trace}");
        }
    }
}

#[test]
fn bad_arguments_are_refused_without_a_result() {
    for args in [
        vec!["--workload", "nope"],
        vec!["--seed", "1"],
        vec!["--workload", "runall", "--trace", "2"],
        vec!["--workload", "runall", "--seconds"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(&args)
            .output()
            .expect("the benchmark runs");
        assert!(!out.status.success(), "{args:?} was accepted");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
