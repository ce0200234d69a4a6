//! Monte-Carlo sampling of hard-fault maps.
//!
//! Hard faults are variation-induced cell failures *at the ULE
//! voltage*: a cell that cannot hold/read its value at 350mV works
//! fine at 1V (which is why the fault budget only matters for the ULE
//! ways — the HP ways are gated off at ULE anyway). A fault map is
//! sampled per manufactured die: each bit of each ULE-way word is
//! faulty independently with the cell's failure probability `Pf`, and
//! a faulty bit is stuck at a random value.

use crate::cache::{HybridCache, StuckBits, WordSlot};
use rand::Rng;

/// Samples a stuck-at fault map for the ULE-enabled ways of `cache`,
/// with per-way bit-failure probabilities `pf_by_way` (indexed like
/// the config's way list). Returns the number of faulty bits
/// installed.
///
/// # Panics
///
/// Panics if `pf_by_way.len()` differs from the way count or any
/// probability is outside `[0, 1]`.
pub fn sample_faults<R: Rng>(cache: &mut HybridCache, pf_by_way: &[f64], rng: &mut R) -> u64 {
    let config = cache.config().clone();
    // hyvec-lint: allow(no-panic, "documented precondition (# Panics): one probability per way")
    assert_eq!(
        pf_by_way.len(),
        config.ways.len(),
        "one pf per way required"
    );
    let words_per_line = config.words_per_line();
    let mut injected = 0u64;
    for (w, (spec, &pf)) in config.ways.iter().zip(pf_by_way).enumerate() {
        // hyvec-lint: allow(no-panic, "documented precondition (# Panics): probabilities live in [0, 1]")
        assert!((0.0..=1.0).contains(&pf), "pf out of range: {pf}");
        if !spec.ule_enabled || pf == 0.0 {
            continue;
        }
        let data_bits = config.word_bits as usize + spec.stored_check_bits();
        let tag_bits = config.tag_bits as usize + spec.stored_check_bits();
        for set in 0..config.sets() {
            for slot in 0..=words_per_line {
                let bits = if slot == words_per_line {
                    tag_bits
                } else {
                    data_bits
                };
                let mut mask = 0u64;
                for b in 0..bits {
                    if rng.gen::<f64>() < pf {
                        mask |= 1u64 << b;
                    }
                }
                if mask != 0 {
                    injected += u64::from(mask.count_ones());
                    let value = rng.gen::<u64>() & mask;
                    cache.set_stuck_bits(WordSlot { way: w, set, slot }, StuckBits { mask, value });
                }
            }
        }
    }
    injected
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheConfig, Mode, WaySpec};
    use hyvec_edc::Protection;
    use hyvec_sram::{CellKind, FailureModel};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn cache_8t_secded() -> HybridCache {
        let mut ways = vec![WaySpec::hp_way(1.0, Protection::None); 7];
        ways.push(WaySpec::ule_way(
            CellKind::Sram8T,
            1.8,
            Protection::None,
            Protection::Secded,
        ));
        HybridCache::new(CacheConfig::l1_8kb(ways), Mode::Ule)
    }

    #[test]
    fn zero_pf_injects_nothing() {
        let mut c = cache_8t_secded();
        let mut rng = SmallRng::seed_from_u64(1);
        let n = sample_faults(&mut c, &[0.0; 8], &mut rng);
        assert_eq!(n, 0);
        assert_eq!(c.fault_bit_count(), 0);
    }

    #[test]
    fn injection_count_tracks_probability() {
        let mut c = cache_8t_secded();
        let mut rng = SmallRng::seed_from_u64(42);
        let mut pf = [0.0f64; 8];
        pf[7] = 0.01;
        let n = sample_faults(&mut c, &pf, &mut rng);
        // ULE way: 32 sets x (8 words x 39 bits + 33 tag bits) = 11040
        // bits at 1%: expect 110.4 faults.
        let expect = 110.4;
        assert!(
            (n as f64) > expect * 0.6 && (n as f64) < expect * 1.4,
            "injected {n}, expected ~{expect}"
        );
        assert_eq!(c.fault_bit_count(), n);
    }

    #[test]
    fn hp_ways_never_receive_faults() {
        let mut c = cache_8t_secded();
        let mut rng = SmallRng::seed_from_u64(3);
        // Even with pf=1 on HP ways, nothing is injected there.
        let mut pf = [0.5f64; 8];
        pf[7] = 0.0;
        let n = sample_faults(&mut c, &pf, &mut rng);
        assert_eq!(n, 0, "HP ways are gated at ULE; no faults modeled");
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let mut pf = [0.0f64; 8];
        pf[7] = 0.005;
        let run = |seed| {
            let mut c = cache_8t_secded();
            let mut rng = SmallRng::seed_from_u64(seed);
            sample_faults(&mut c, &pf, &mut rng)
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn pf_for_way_uses_cell_and_voltage() {
        let model = FailureModel::default();
        let ule8 = WaySpec::ule_way(CellKind::Sram8T, 1.0, Protection::None, Protection::Secded);
        let high = model.pf(&ule8.cell, 1.0);
        let low = model.pf(&ule8.cell, 0.35);
        assert!(low > high * 1e6, "NST must be far riskier");
    }

    #[test]
    #[should_panic(expected = "one pf per way")]
    fn wrong_length_rejected() {
        let mut c = cache_8t_secded();
        let mut rng = SmallRng::seed_from_u64(1);
        let _ = sample_faults(&mut c, &[0.0; 3], &mut rng);
    }
}
