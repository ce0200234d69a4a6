//! Property-based tests of the array energy/delay/area model.

use hyvec_cachemodel::{EdcCircuit, SramArray, TechnologyParams};
use hyvec_edc::{DectedCode, HsiaoCode, Protection};
use hyvec_sram::{CellKind, SizedCell};
use proptest::prelude::*;

prop_compose! {
    fn arb_array()(
        kind_sel in 0usize..3,
        sizing in 1.0f64..4.0,
        rows_log in 4u32..9,
        cols_log in 4u32..9,
    ) -> SramArray {
        let kind = CellKind::ALL[kind_sel];
        let rows = 1u32 << rows_log;
        let cols = 1u32 << cols_log;
        SramArray::new(
            SizedCell::new(kind, sizing),
            rows,
            cols,
            cols.min(32),
            TechnologyParams::nm32(),
        )
    }
}

proptest! {
    /// Energies, leakage, area and delay are positive and scale with
    /// voltage the right way for any geometry.
    #[test]
    fn array_quantities_are_sane(array in arb_array(), vdd in 0.3f64..1.2) {
        let read = array.read_energy_pj(vdd);
        let write = array.write_energy_pj(vdd);
        prop_assert!(read > 0.0 && write > 0.0);
        prop_assert!(array.leakage_w(vdd) > 0.0);
        prop_assert!(array.area_um2() > 0.0);
        prop_assert!(array.access_delay_ns(vdd) > 0.0);
        // Dynamic energy strictly increases with voltage.
        prop_assert!(array.read_energy_pj(vdd + 0.05) > read);
        // Delay decreases (or stays) with voltage.
        prop_assert!(array.access_delay_ns(vdd + 0.05) <= array.access_delay_ns(vdd) * 1.0001);
    }

    /// Doubling rows doubles leakage exactly and increases read
    /// energy (longer bitlines).
    #[test]
    fn row_scaling(cols_log in 4u32..8, sizing in 1.0f64..3.0) {
        let tech = TechnologyParams::nm32();
        let cell = SizedCell::new(CellKind::Sram6T, sizing);
        let cols = 1u32 << cols_log;
        let a = SramArray::new(cell, 32, cols, cols.min(32), tech);
        let b = SramArray::new(cell, 64, cols, cols.min(32), tech);
        prop_assert!((b.leakage_w(1.0) / a.leakage_w(1.0) - 2.0).abs() < 1e-9);
        prop_assert!(b.read_energy_pj(1.0) > a.read_energy_pj(1.0));
        prop_assert!(b.bitline_cap_ff() > a.bitline_cap_ff());
    }

    /// `for_bits` always produces an array holding exactly the
    /// requested bits with the requested access width.
    #[test]
    fn for_bits_conserves_bits(
        words_log in 3u32..10,
        word_bits in prop::sample::select(vec![16u32, 26, 32, 39, 45]),
        target_rows in prop::sample::select(vec![32u32, 64, 128]),
    ) {
        let words = 1u64 << words_log;
        let bits = words * u64::from(word_bits);
        let cell = SizedCell::new(CellKind::Sram8T, 1.5);
        let a = SramArray::for_bits(cell, bits, word_bits, target_rows, TechnologyParams::nm32());
        prop_assert_eq!(a.bits(), bits);
        prop_assert_eq!(a.cols_per_access(), word_bits);
        prop_assert_eq!(u64::from(a.rows()) * u64::from(a.cols()), bits);
    }

    /// EDC circuit energy scales exactly with V^2 and is ordered by
    /// code strength for every voltage.
    #[test]
    fn edc_circuit_scaling(vdd in 0.3f64..1.1) {
        let tech = TechnologyParams::nm32();
        let s = EdcCircuit::for_code(&HsiaoCode::secded32(), tech);
        let d = EdcCircuit::for_code(&DectedCode::dected32(), tech);
        prop_assert!(d.decode_energy_pj(vdd) > s.decode_energy_pj(vdd));
        prop_assert!(d.encode_energy_pj(vdd) > s.encode_energy_pj(vdd));
        let ratio = s.decode_energy_pj(vdd) / s.decode_energy_pj(vdd / 2.0);
        prop_assert!((ratio - 4.0).abs() < 1e-9);
    }

    /// Protection factory and circuit model agree on zero-cost
    /// pass-through.
    #[test]
    fn none_protection_is_free(bits in 1usize..57) {
        let tech = TechnologyParams::nm32();
        let code = Protection::None.build(bits).unwrap();
        let c = EdcCircuit::for_code(code, tech);
        prop_assert_eq!(c.encode_energy_pj(1.0), 0.0);
        prop_assert_eq!(c.latency_cycles(), 0);
    }
}
