//! Fixture corpus: one known-violation file per rule, plus known-clean
//! and fully-annotated files. Each test pins the exact
//! `file:line: rule` diagnostics so rule behavior can never drift
//! silently.

use hyvec_lint::config::Config;
use hyvec_lint::diag::Rule;
use hyvec_lint::lint_source;

/// Lints fixture text as library code under a synthetic lib path.
fn lint_lib(name: &str, src: &str) -> Vec<(u32, Rule)> {
    let rel = format!("crates/fixture/src/{name}");
    lint_source(&rel, src, &Config::default())
        .into_iter()
        .map(|d| (d.line, d.rule))
        .collect()
}

#[test]
fn determinism_fixture_lines() {
    let src = include_str!("fixtures/determinism.rs");
    assert_eq!(
        lint_lib("determinism.rs", src),
        vec![
            (3, Rule::Determinism),  // use HashMap
            (4, Rule::Determinism),  // use Instant
            (8, Rule::Determinism),  // Instant::now()
            (9, Rule::Determinism),  // HashMap type + ctor, one finding
            (10, Rule::Determinism), // std::env::var
            (15, Rule::Determinism), // static AtomicU64
        ]
    );
}

#[test]
fn seeded_rng_fixture_lines() {
    let src = include_str!("fixtures/rng.rs");
    assert_eq!(
        lint_lib("rng.rs", src),
        vec![
            (5, Rule::SeededRng), // thread_rng()
            (6, Rule::SeededRng), // rand::random()
            (7, Rule::SeededRng), // seed_from_u64(42)
        ]
    );
}

#[test]
fn no_panic_fixture_lines() {
    let src = include_str!("fixtures/no_panic.rs");
    assert_eq!(
        lint_lib("no_panic.rs", src),
        vec![
            (5, Rule::NoPanic), // unwrap()
            (6, Rule::NoPanic), // assert!
            (8, Rule::NoPanic), // panic!
        ]
    );
}

#[test]
fn counter_hygiene_fixture_lines() {
    let src = include_str!("fixtures/stats.rs");
    let cfg = Config {
        counter_files: vec!["**/stats.rs".to_string()],
        ..Config::default()
    };
    let got: Vec<(u32, Rule)> = lint_source("crates/fixture/src/stats.rs", src, &cfg)
        .into_iter()
        .map(|d| (d.line, d.rule))
        .collect();
    assert_eq!(
        got,
        vec![
            (4, Rule::CounterHygiene), // -> f64 signature
            (5, Rule::CounterHygiene), // total as u32
            (6, Rule::CounterHygiene), // as f64 + 2.5, one finding
            (7, Rule::CounterHygiene), // f64::from
        ]
    );
    // The same file outside the counter-files list is clean: the rule
    // is scoped, not global.
    assert_eq!(lint_lib("shapes.rs", src), vec![]);
}

#[test]
fn no_unsafe_fixture_lines() {
    let src = include_str!("fixtures/unsafe_code.rs");
    assert_eq!(lint_lib("unsafe_code.rs", src), vec![(5, Rule::NoUnsafe)]);
}

#[test]
fn bad_allow_fixture_lines() {
    let src = include_str!("fixtures/bad_allow.rs");
    let diags = lint_source("crates/fixture/src/bad_allow.rs", src, &Config::default());
    let got: Vec<(u32, Rule)> = diags.iter().map(|d| (d.line, d.rule)).collect();
    assert_eq!(
        got,
        vec![
            (3, Rule::BadAllow), // missing mandatory reason
            (7, Rule::BadAllow), // unknown rule, reported at the covered line
        ]
    );
    assert!(diags[0].message.contains("reason"));
    assert!(diags[1].message.contains("no-hashing"));
}

#[test]
fn clean_fixture_is_clean() {
    let src = include_str!("fixtures/clean.rs");
    assert_eq!(lint_lib("clean.rs", src), vec![]);
}

#[test]
fn annotated_fixture_is_fully_suppressed() {
    let src = include_str!("fixtures/allowed.rs");
    assert_eq!(lint_lib("allowed.rs", src), vec![]);
}

#[test]
fn rendered_diagnostics_use_file_line_rule_shape() {
    let src = include_str!("fixtures/unsafe_code.rs");
    let diags = lint_source("crates/fixture/src/unsafe_code.rs", src, &Config::default());
    assert_eq!(diags.len(), 1);
    assert!(diags[0]
        .render()
        .starts_with("crates/fixture/src/unsafe_code.rs:5: no-unsafe: "));
}

#[test]
fn violation_fixtures_are_exempt_in_test_like_paths() {
    // The same violating text in tests/ raises only the rules that
    // apply everywhere (ambient entropy, unsafe) — not no-panic or
    // determinism.
    let panics = include_str!("fixtures/no_panic.rs");
    let got = lint_source(
        "crates/fixture/tests/no_panic.rs",
        panics,
        &Config::default(),
    );
    assert_eq!(got, vec![]);

    let rng = include_str!("fixtures/rng.rs");
    let got: Vec<(u32, Rule)> = lint_source("crates/fixture/tests/rng.rs", rng, &Config::default())
        .into_iter()
        .map(|d| (d.line, d.rule))
        .collect();
    // thread_rng and rand::random stay banned in tests; the literal
    // seed_from_u64(42) becomes legal there.
    assert_eq!(got, vec![(5, Rule::SeededRng), (6, Rule::SeededRng)]);
}
