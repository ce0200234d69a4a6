//! Table-driven kernels and decoders vs the retained loop-based
//! references.
//!
//! The production codes are table-driven: byte-sliced lookups compute
//! the check bits and syndromes, then a syndrome→action lookup (Hsiao)
//! or a syndrome→locator table (DECTED) classifies the word.
//! `hyvec_edc::reference` keeps the original row-mask parity loops and
//! per-bit decoders. These tests pin the two bit-for-bit against each
//! other: the kernels on every single-bit column of every width and on
//! random words carrying garbage above the codeword, the decoders
//! exhaustively over every single- and double-bit corruption of the
//! paper's geometries and property-based over random words and error
//! patterns.

use hyvec_edc::{reference, DectedCode, EdcCode, HsiaoCode};
use proptest::prelude::*;

fn low_mask(bits: usize) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// Every single-bit input of every Hsiao width: the check-bit table
/// reproduces the row-mask parities on each data column, and the
/// syndrome on each codeword column (check bits included).
#[test]
fn hsiao_kernels_match_reference_on_every_column_of_every_width() {
    for k in 1..=hyvec_edc::hsiao::MAX_DATA_BITS {
        let code = HsiaoCode::new(k).unwrap();
        for i in 0..k {
            let data = 1u64 << i;
            assert_eq!(
                code.checks(data),
                reference::hsiao_checks(&code, data),
                "k={k}, data bit {i}"
            );
        }
        for i in 0..code.total_bits() {
            let word = 1u64 << i;
            assert_eq!(
                code.syndrome(word),
                reference::hsiao_syndrome(&code, word),
                "k={k}, codeword bit {i}"
            );
        }
    }
}

/// Every single-bit input of every DECTED width: the check-bit table
/// (BCH parity plus overall parity) and the `(S1, S3, parity)` table
/// reproduce the row-mask parities column by column.
#[test]
fn dected_kernels_match_reference_on_every_column_of_every_width() {
    for k in 1..=hyvec_edc::bch::MAX_DATA_BITS {
        let code = DectedCode::new(k).unwrap();
        for i in 0..k {
            let data = 1u64 << i;
            assert_eq!(
                code.checks(data),
                reference::dected_checks(&code, data),
                "k={k}, data bit {i}"
            );
        }
        for i in 0..code.total_bits() {
            let word = 1u64 << i;
            assert_eq!(
                code.syndromes(word),
                reference::dected_syndromes(&code, word),
                "k={k}, codeword bit {i}"
            );
        }
    }
}

/// Every single- and double-bit corruption of a (39,32) or (33,26)
/// Hsiao codeword decodes identically through the syndrome table and
/// the loop-based column scan — same variant, same data, same error
/// count.
#[test]
fn hsiao_tables_match_reference_on_every_single_and_double_corruption() {
    for k in [26usize, 32] {
        let code = HsiaoCode::new(k).unwrap();
        let n = code.total_bits();
        for data in [0u64, u64::MAX, 0x5A5A_5A5A_5A5A_5A5A, 0x0123_4567_89AB_CDEF] {
            let cw = code.encode(data);
            assert_eq!(code.decode(cw), reference::hsiao_decode(&code, cw));
            for a in 0..n {
                let single = cw ^ (1u64 << a);
                assert_eq!(
                    code.decode(single),
                    reference::hsiao_decode(&code, single),
                    "single flip at {a}, k={k}"
                );
                for b in (a + 1)..n {
                    let double = single ^ (1u64 << b);
                    assert_eq!(
                        code.decode(double),
                        reference::hsiao_decode(&code, double),
                        "double flip at {a},{b}, k={k}"
                    );
                }
            }
        }
    }
}

/// Beyond the SECDED guarantee the two implementations must still
/// agree — the table encodes the exact same no-column/triple-error
/// classification the scan performed. Exhaust all triples on the tag
/// geometry.
#[test]
fn hsiao_tables_match_reference_on_triple_corruptions() {
    let code = HsiaoCode::new(26).unwrap();
    let n = code.total_bits();
    let cw = code.encode(0x2BAD_F00D);
    for a in 0..n {
        for b in (a + 1)..n {
            for c in (b + 1)..n {
                let word = cw ^ (1u64 << a) ^ (1u64 << b) ^ (1u64 << c);
                assert_eq!(
                    code.decode(word),
                    reference::hsiao_decode(&code, word),
                    "bits {a},{b},{c}"
                );
            }
        }
    }
}

/// Exhaustive DECTED agreement on the paper's two geometries: every
/// single and double corruption decodes identically through the
/// syndrome-mask/locator-table path and the loop/field-arithmetic
/// path.
#[test]
fn dected_tables_match_reference_on_every_single_and_double_corruption() {
    for k in [26usize, 32] {
        let code = DectedCode::new(k).unwrap();
        let n = code.total_bits();
        let cw = code.encode(0x9E37_79B9);
        assert_eq!(code.decode(cw), reference::dected_decode(&code, cw));
        for a in 0..n {
            let single = cw ^ (1u64 << a);
            assert_eq!(
                code.decode(single),
                reference::dected_decode(&code, single),
                "single flip at {a}, k={k}"
            );
            for b in (a + 1)..n {
                let double = single ^ (1u64 << b);
                assert_eq!(
                    code.decode(double),
                    reference::dected_decode(&code, double),
                    "double flip at {a},{b}, k={k}"
                );
            }
        }
    }
}

proptest! {
    /// Random 64-bit inputs, garbage above the data or codeword width
    /// included: the Hsiao tables ignore those bits, exactly as the
    /// masked row-mask loops do, and so does the encoder.
    #[test]
    fn hsiao_kernels_match_reference_on_random_words(k in 1usize..=57, word: u64) {
        let code = HsiaoCode::new(k).unwrap();
        let data = word & low_mask(k);
        let codeword = word & low_mask(code.total_bits());
        prop_assert_eq!(code.checks(word), reference::hsiao_checks(&code, data));
        prop_assert_eq!(code.syndrome(word), reference::hsiao_syndrome(&code, codeword));
        let checks = u64::from(reference::hsiao_checks(&code, data));
        prop_assert_eq!(code.encode(word), data | checks << k);
        prop_assert_eq!(code.decode(word), code.decode(codeword));
    }

    /// The same for DECTED: check bits, `(S1, S3, parity)`, the
    /// encoder and the decoder all ignore bits above their width.
    #[test]
    fn dected_kernels_match_reference_on_random_words(k in 1usize..=51, word: u64) {
        let code = DectedCode::new(k).unwrap();
        let data = word & low_mask(k);
        let codeword = word & low_mask(code.total_bits());
        prop_assert_eq!(code.checks(word), reference::dected_checks(&code, data));
        prop_assert_eq!(code.syndromes(word), reference::dected_syndromes(&code, codeword));
        let checks = u64::from(reference::dected_checks(&code, data));
        let expect = data << 12 | (checks & 0xFFF) | (checks >> 12) << (12 + k);
        prop_assert_eq!(code.encode(word), expect);
        prop_assert_eq!(code.decode(word), code.decode(codeword));
    }

    /// Random words through both Hsiao decoders at every width — not
    /// just codewords with planted errors: arbitrary 64-bit garbage
    /// must classify identically too.
    #[test]
    fn hsiao_table_matches_reference_on_random_words(k in 1usize..=57, word: u64) {
        let code = HsiaoCode::new(k).unwrap();
        let total = code.total_bits();
        let word = word & if total >= 64 { u64::MAX } else { (1u64 << total) - 1 };
        prop_assert_eq!(code.decode(word), reference::hsiao_decode(&code, word));
    }

    /// Random words through both DECTED decoders at every width.
    #[test]
    fn dected_table_matches_reference_on_random_words(k in 1usize..=51, word: u64) {
        let code = DectedCode::new(k).unwrap();
        let total = code.total_bits();
        let word = word & if total >= 64 { u64::MAX } else { (1u64 << total) - 1 };
        prop_assert_eq!(code.decode(word), reference::dected_decode(&code, word));
    }

    /// Random encoded data with up to four planted flips: the table
    /// path reproduces the loop path through clean, corrected and
    /// detected outcomes alike.
    #[test]
    fn dected_table_matches_reference_on_planted_errors(
        k in 1usize..=51,
        data: u64,
        flips in prop::collection::vec(0usize..64, 0..=4),
    ) {
        let code = DectedCode::new(k).unwrap();
        let mut word = code.encode(data);
        for f in flips {
            word ^= 1u64 << (f % code.total_bits());
        }
        prop_assert_eq!(code.decode(word), reference::dected_decode(&code, word));
    }
}
