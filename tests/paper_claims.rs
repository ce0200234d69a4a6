//! Calibration tests for the paper's headline claims.
//!
//! Absolute joules cannot be compared against the authors' closed
//! toolchain (CACTI extensions + MPSim + HSPICE), so these tests pin
//! the *shape* of every headline number inside a tolerance band around
//! the paper's reported value:
//!
//! * HP-mode EPI savings: 14% (A) / 12% (B)  -> bands 10–18% / 8–16%
//! * ULE-mode EPI savings: 42% (A) / 39% (B) -> bands 35–48% / 30–45%
//! * Scenario A saves more than B in both modes (same ordering)
//! * ULE execution-time overhead: ~3% ("negligible") -> band 0–6%
//! * Pf anchor: 1.22e-6 for 99% yield over the 8K-bit example
//! * Proposal yield >= baseline yield in both scenarios

use hyvec_cachesim::SimOptions;
use hyvec_core::experiments::{
    fig3_hp_epi, fig4_ule_epi, methodology_table, ule_performance, ExperimentParams,
};
use hyvec_core::Scenario;

fn params() -> ExperimentParams {
    ExperimentParams {
        instructions: 60_000,
        seed: 2013,
    }
}

#[test]
fn hp_savings_match_paper_bands() {
    let a = fig3_hp_epi(Scenario::A, params(), SimOptions::default());
    let b = fig3_hp_epi(Scenario::B, params(), SimOptions::default());
    assert!(
        a.saving > 0.10 && a.saving < 0.18,
        "scenario A HP saving {:.3} outside 10-18% (paper: 14%)",
        a.saving
    );
    assert!(
        b.saving > 0.08 && b.saving < 0.16,
        "scenario B HP saving {:.3} outside 8-16% (paper: 12%)",
        b.saving
    );
    assert!(
        a.saving > b.saving,
        "paper ordering: A (14%) saves more than B (12%) at HP; got A {:.3} vs B {:.3}",
        a.saving,
        b.saving
    );
}

#[test]
fn ule_savings_match_paper_bands() {
    let a = fig4_ule_epi(Scenario::A, params(), SimOptions::default());
    let b = fig4_ule_epi(Scenario::B, params(), SimOptions::default());
    assert!(
        a.avg_saving > 0.35 && a.avg_saving < 0.48,
        "scenario A ULE saving {:.3} outside 35-48% (paper: 42%)",
        a.avg_saving
    );
    assert!(
        b.avg_saving > 0.30 && b.avg_saving < 0.45,
        "scenario B ULE saving {:.3} outside 30-45% (paper: 39%)",
        b.avg_saving
    );
    assert!(
        a.avg_saving > b.avg_saving,
        "paper ordering: A (42%) saves more than B (39%) at ULE; got A {:.3} vs B {:.3}",
        a.avg_saving,
        b.avg_saving
    );
}

#[test]
fn hp_mode_has_no_performance_degradation() {
    // "Our architecture does not experience any performance
    //  degradation (no latency overhead)" at HP — Sec. IV-B.1.
    use hyvec_cachesim::{Mode, System};
    use hyvec_core::architecture::{Architecture, DesignPoint};
    use hyvec_mediabench::Benchmark;
    for s in Scenario::ALL {
        let base = Architecture::build(s, DesignPoint::Baseline).unwrap();
        let prop = Architecture::build(s, DesignPoint::Proposal).unwrap();
        let mut bs = System::new(base.config.clone());
        let mut ps = System::new(prop.config.clone());
        for b in [Benchmark::GsmC, Benchmark::Mpeg2D] {
            let br = bs.run(b.trace(40_000, 9), Mode::Hp);
            let pr = ps.run(b.trace(40_000, 9), Mode::Hp);
            assert_eq!(
                br.stats.cycles, pr.stats.cycles,
                "scenario {s}/{b}: HP cycles must be identical"
            );
        }
    }
}

#[test]
fn ule_overhead_is_negligible_like_the_paper() {
    // "around 3% increase in execution time in all cases".
    for s in Scenario::ALL {
        let rows = ule_performance(s, params(), SimOptions::default());
        let avg: f64 = rows.iter().map(|r| r.overhead).sum::<f64>() / rows.len() as f64;
        assert!(
            (0.0..0.06).contains(&avg),
            "scenario {s}: ULE overhead {avg:.4} outside 0-6% (paper: ~3%)"
        );
        for r in &rows {
            assert!(
                r.overhead < 0.08,
                "scenario {s}/{}: overhead {:.4}",
                r.benchmark,
                r.overhead
            );
        }
    }
}

#[test]
fn pf_anchor_reproduces_exactly() {
    // "to have a 99% yield for an 8KB cache, faulty bit rate Pf must
    //  be 1.22e-6" — Sec. III-C.
    let designs = methodology_table();
    let a = designs
        .iter()
        .find(|d| d.scenario == Scenario::A)
        .expect("scenario A present");
    assert!(
        (a.pf_target - 1.2268e-6).abs() < 1e-8,
        "anchor {} vs paper 1.22e-6",
        a.pf_target
    );
}

#[test]
fn methodology_preserves_reliability_levels() {
    // "while keeping the same guaranteed performance and reliability
    //  levels" — the proposal's yield is never below the baseline's.
    for d in methodology_table() {
        assert!(
            d.yield_proposal >= d.yield_baseline,
            "scenario {:?}: proposal yield {} < baseline {}",
            d.scenario,
            d.yield_proposal,
            d.yield_baseline
        );
        assert!(
            d.sizing_8t < d.sizing_10t,
            "scenario {:?}: the 8T cells must stay smaller than the 10T cells",
            d.scenario
        );
    }
}

#[test]
fn benchmarks_show_minor_differences_to_the_average() {
    // "All benchmarks show minor differences to the average" (HP).
    let r = fig3_hp_epi(Scenario::A, params(), SimOptions::default());
    let avg = 1.0 - r.saving;
    for (b, ratio) in &r.per_benchmark {
        assert!(
            (ratio - avg).abs() < 0.08,
            "{b}: normalized EPI {ratio:.3} deviates from average {avg:.3}"
        );
    }
}

#[test]
fn leakage_savings_exceed_dynamic_savings_at_ule() {
    // "the relative leakage energy savings are larger than those for
    //  dynamic energy" — Sec. IV-B.2.
    let r = fig4_ule_epi(Scenario::A, params(), SimOptions::default());
    for row in &r.rows {
        let dyn_saving = 1.0 - row.proposal.l1_dynamic_pj / row.baseline.l1_dynamic_pj;
        let leak_saving = 1.0 - row.proposal.l1_leakage_pj / row.baseline.l1_leakage_pj;
        assert!(
            leak_saving > dyn_saving,
            "{}: leakage saving {:.3} must exceed dynamic saving {:.3}",
            row.benchmark,
            leak_saving,
            dyn_saving
        );
    }
}
